import json

import numpy as np
import pytest

from filmhomog import ParseError, ValidationError
from filmhomog.config import parse_config

MINIMAL_R2 = {
    "motif": {
        "points": [
            {"w": 1.0, "y": [0.75, 0.5], "z": 0.0},
            {"w": -1.0, "y": [0.25, 0.5], "z": 0.0},
        ]
    },
    "regime": {"kind": "R2", "alpha": 1.0},
    "schedule": {"l": [0.25, 0.125]},
}


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParse:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_R2))
        assert cfg.tol == 1e-9
        assert cfg.max_depth == 12
        assert cfg.grid.n_points == 25  # 5x5 default
        assert cfg.grid.standoff == pytest.approx(1.0)
        assert cfg.schedule == [(0.25, 0.25), (0.125, 0.125)]
        x = np.array([[0.25, 0.75, 0.125], [1.0, 0.0, -0.5]])
        np.testing.assert_array_equal(cfg.pmap.evaluate(x), x)  # the default map is the identity
        np.testing.assert_array_equal(cfg.pmap.midsurface(x[:, :2]), [[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
        assert len(cfg.scenario_hash) == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_r2_pair_mismatch_names_fields(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["schedule"] = {"l": [0.25], "h": [0.2]}
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, payload))
        message = "; ".join(err.value.violations)
        assert "h" in message and "alpha" in message

    def test_point_on_film_cites_standoff(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["grid"] = {"kind": "points", "points": [[0.5, 0.5, 0.0]]}
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, payload))
        assert any("standoff" in v for v in err.value.violations)

    def test_collects_all_violations(self, tmp_path):
        payload = {
            "motif": {"points": [{"w": 1.0, "y": [0.0, 0.5], "z": 0.0}]},  # on cell face
            "regime": {"kind": "R9"},
            "schedule": {"l": [2.0]},
            "quadrature": {"tol": -1.0},
        }
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, payload))
        labels = {v.split(":")[0] for v in err.value.violations}
        assert {"motif", "regime", "quadrature"} <= labels

    def test_nan_tolerance_rejected(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["quadrature"] = {"tol": float("nan")}  # json writes and reads NaN
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, payload))
        assert any(v.startswith("quadrature:") for v in err.value.violations)

    @pytest.mark.parametrize("name", ["order_min", "gauge_phi_tol", "gauge_moment_min"])
    def test_nan_threshold_rejected(self, tmp_path, name):
        payload = dict(MINIMAL_R2, thresholds={name: float("nan")})
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, payload))
        assert err.value.violations == [f"thresholds: {name} must not be NaN (every comparison with NaN is false)"]

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_thresholds_kept(self, tmp_path, value):
        # an infinite threshold compares as usual: -inf order_min, +inf gauge_phi_tol and
        # -inf gauge_moment_min always pass, and the opposite signs always fail --assert
        names = ("order_min", "gauge_phi_tol", "gauge_moment_min")
        cfg = parse_config(write(tmp_path, dict(MINIMAL_R2, thresholds=dict.fromkeys(names, value))))
        assert [getattr(cfg.thresholds, name) for name in names] == [value] * 3

    def test_cylinder_map_and_offset_grid(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["map"] = {"kind": "cylinder", "radius": 2.0}
        payload["grid"] = {"kind": "offset_surface", "n": [3, 3], "distance": 1.0}
        cfg = parse_config(write(tmp_path, payload))
        assert cfg.grid.standoff == pytest.approx(1.0, rel=1e-9)
        radii = np.linalg.norm(cfg.grid.points[:, :2], axis=1)
        np.testing.assert_allclose(radii, 3.0, rtol=1e-12)

    def test_schedule_thickness_exceeding_map(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["map"] = {"kind": "cylinder", "radius": 0.4}  # h_max = 0.2
        with pytest.raises(ValidationError) as err:
            parse_config(write(tmp_path, payload))
        assert any("h_max" in v for v in err.value.violations)

    def test_hash_is_stable(self, tmp_path):
        c1 = parse_config(write(tmp_path, MINIMAL_R2, "a.json"))
        c2 = parse_config(write(tmp_path, MINIMAL_R2, "b.json"))
        assert c1.scenario_hash == c2.scenario_hash

    def test_free_points_and_modulation(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["motif"] = {
            "points": [
                {"w": 1.0, "y": [0.75, 0.5], "z": 0.0, "modulation": {"kind": "sinusoid", "coef": [3.14159, 0.0]}},
                {"w": -1.0, "y": [0.25, 0.5], "z": 0.0},
            ],
            "free_points": [{"w": 0.5, "y": [0.5, 0.5], "z": 0.0}],
            "free_charge_order": [1, 0],
        }
        cfg = parse_config(write(tmp_path, payload))
        assert cfg.motif.free_charge_order == (1, 0)
        assert cfg.motif.points[0].modulation.kind == "sinusoid"

    def test_unknown_modulation_rejected(self, tmp_path):
        payload = dict(MINIMAL_R2)
        payload["motif"] = {
            "points": [{"w": 1.0, "y": [0.5, 0.5], "z": 0.0, "modulation": {"kind": "spline"}}]
        }
        with pytest.raises(ValidationError):
            parse_config(write(tmp_path, payload))
